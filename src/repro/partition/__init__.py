"""Graph partitioning (METIS substitute) and multicoloring.

The paper partitions each matrix with METIS, one subdomain per MPI process
(Section 2.4).  This package provides a from-scratch multilevel recursive-
bisection partitioner with the same three phases as METIS (heavy-edge
matching coarsening, greedy graph-growing initial partition, FM boundary
refinement), plus regular-grid blocks, quality metrics, and the greedy BFS
multicoloring used by Multicolor Gauss-Seidel.

The main entry point is :func:`partition`, which returns a
:class:`Partition` bundling the labels with everything the distributed
solvers need (row offsets, permutation, neighbor topology).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.partition.bisect import fm_refine, greedy_grow_bisection
from repro.partition.coarsen import (
    coarsen_graph,
    heavy_edge_matching,
    matching_relabel,
)
from repro.partition.coloring import (
    color_classes,
    greedy_coloring,
    is_valid_coloring,
)
from repro.partition.graph import Graph, matrix_graph
from repro.partition.grid import factor_near_square, grid_blocks_2d
from repro.partition.metrics import (
    edge_cut,
    imbalance,
    neighbor_lists,
    parts_are_valid,
)
from repro.partition.multilevel import (
    multilevel_bisection,
    partition_graph,
    partition_matrix,
)
from repro.sparsela import CSRMatrix

__all__ = [
    "Graph",
    "Partition",
    "coarsen_graph",
    "color_classes",
    "edge_cut",
    "factor_near_square",
    "fm_refine",
    "greedy_coloring",
    "greedy_grow_bisection",
    "grid_blocks_2d",
    "heavy_edge_matching",
    "imbalance",
    "is_valid_coloring",
    "matching_relabel",
    "matrix_graph",
    "multilevel_bisection",
    "neighbor_lists",
    "partition",
    "partition_from_parts",
    "partition_graph",
    "partition_matrix",
    "parts_are_valid",
]


@dataclass(frozen=True)
class Partition:
    """A row partition in the form the distributed solvers consume.

    Attributes
    ----------
    parts:
        ``parts[row] = owning process`` in *original* row numbering.
    n_parts:
        Number of processes ``P``.
    perm:
        Permutation grouping rows by part: ``perm[k]`` is the original row
        at global position ``k`` after renumbering (part 0's rows first).
    offsets:
        The paper's ``δ`` array — ``P+1`` prefix offsets; process ``p`` owns
        permuted rows ``offsets[p]:offsets[p+1]``.
    neighbors:
        ``neighbors[p]`` = sorted array of processes coupled to ``p``
        (given the matrix the partition was built for).
    """

    parts: np.ndarray
    n_parts: int
    perm: np.ndarray
    offsets: np.ndarray
    neighbors: list[np.ndarray]

    def rows_of(self, p: int) -> np.ndarray:
        """Original row indices owned by process ``p``."""
        return self.perm[self.offsets[p]:self.offsets[p + 1]]

    def size_of(self, p: int) -> int:
        """Number of rows owned by process ``p``."""
        return int(self.offsets[p + 1] - self.offsets[p])


def partition_from_parts(A: CSRMatrix, parts: np.ndarray,
                         n_parts: int) -> Partition:
    """Assemble a :class:`Partition` from precomputed labels."""
    parts = np.asarray(parts, dtype=np.int64)
    if parts.size != A.n_rows:
        raise ValueError("parts length must equal the number of rows")
    counts = np.bincount(parts, minlength=n_parts)
    offsets = np.zeros(n_parts + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    perm = np.argsort(parts, kind="stable")
    nbrs = neighbor_lists(A, parts, n_parts)
    return Partition(parts=parts, n_parts=n_parts, perm=perm,
                     offsets=offsets, neighbors=nbrs)


def partition(A: CSRMatrix, n_parts: int, method: str = "multilevel",
              seed: int = 0, grid_shape: tuple[int, int] | None = None
              ) -> Partition:
    """Partition a matrix into ``n_parts`` subdomains.

    Parameters
    ----------
    method:
        ``'multilevel'`` (default; the METIS k-way substitute the
        paper's experiments use), ``'grid'`` (rectangular blocks; needs
        ``grid_shape=(nx, ny)`` with ``nx*ny == n_rows``), or
        ``'strided'`` (contiguous equal chunks of the natural ordering —
        the trivial baseline).
    """
    if n_parts < 1:
        raise ValueError("n_parts must be positive")
    if n_parts > A.n_rows:
        raise ValueError("more parts than rows")
    if method == "multilevel":
        parts = partition_matrix(A, n_parts, seed=seed)
    elif method == "grid":
        if grid_shape is None:
            raise ValueError("grid method needs grid_shape=(nx, ny)")
        nx, ny = grid_shape
        if nx * ny != A.n_rows:
            raise ValueError("grid_shape inconsistent with matrix size")
        parts = grid_blocks_2d(nx, ny, n_parts)
    elif method == "strided":
        parts = np.minimum(
            np.arange(A.n_rows) * n_parts // A.n_rows, n_parts - 1)
    else:
        raise ValueError(f"unknown partition method {method!r}")
    return partition_from_parts(A, parts, n_parts)
