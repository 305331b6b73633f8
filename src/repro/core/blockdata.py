"""Distributed block data layout shared by Algorithms 1-3.

After partitioning, the matrix is symmetrically permuted so each process
``p`` owns the contiguous (permuted) rows ``offsets[p]:offsets[p+1]``
(the paper's ``δ`` arrays).  Each process stores:

- its diagonal block ``A_pp`` plus its local solver;
- for every neighbor ``q``, the coupling block
  ``B[(p, q)] = A[β_qp, rows_p]`` — the rows of ``q`` reachable from ``p``'s
  columns (this is "process p stores column i of A" from Section 3): with
  it, ``p`` computes the effect of its own relaxation on ``q``'s residual,
  ``Δr_q[β_qp] = -B @ Δx_p``, *without communication*;
- the boundary index lists ``β[(q, p)]`` (local rows of ``q`` coupled to
  ``p``), which double as the ghost-layer layout of Distributed Southwell.

Everything here is built once per (matrix, partition) pair and shared
read-only by all three distributed methods, so method comparisons run on
identical data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.partition import Partition
from repro.sparsela import CSRMatrix
from repro.sparsela.csr import _segment_pointers
from repro.core.local_solvers import (LocalSolver, _ld_operands, _ld_whole,
                                      _splu_ld, make_local_solver)

__all__ = ["BlockSystem", "build_block_system"]

#: rows costing about one python dispatch to relax: a lockstep step runs
#: its winners as one batch on blocks averaging at most this many rows
#: and bridges shorter gaps between winners (measured crossover ≈ 150
#: rows/block, 5-point stencil); its winners solve through one factor of
#: the whole block diagonal once they cover this many rows each
#: (DESIGN.md §5.8)
_BATCH_ROWS = 128


def _batched(n: int, n_parts: int) -> bool:
    """Whether lockstep steps relax their winners as one batch: blocks
    average at most :data:`_BATCH_ROWS` rows.  Otherwise every rank
    relaxes on its own and factors its block at build."""
    return n <= _BATCH_ROWS * n_parts


@dataclass
class BlockSystem:
    """All per-process immutable data for one (matrix, partition) pair.

    Attributes
    ----------
    A:
        The permuted global matrix (rows grouped by owner).
    part:
        The partition (``offsets`` index into the permuted numbering).
    diag_blocks:
        ``diag_blocks[p] = A_pp``.
    local_solvers:
        Local solver per process.  Gauss-Seidel blocks are factored at
        build only where every rank relaxes on its own (blocks above
        :data:`_BATCH_ROWS` rows on average); a batching system factors
        a block at its rank's first solo relax and solves larger
        batches through :meth:`block_diag_solve`.
    couplings:
        ``couplings[(p, q)]`` = CSR of shape ``(len(beta[(q, p)]), m_p)``
        mapping ``Δx_p`` to the residual change on ``q``'s boundary rows.
    beta:
        ``beta[(q, p)]`` = local row indices of ``q`` coupled to ``p``
        (sorted).  ``couplings[(p, q)]`` rows align with ``beta[(q, p)]``.
    edge_src, edge_dst, edge_rows, beta_rows:
        The coupling store's directory: pair ``e`` is
        ``(edge_src[e], edge_dst[e])``, pairs ascending — i.e. the
        concatenated neighbor lists, so ``e`` is also a neighbor-slab
        position — with ``beta_rows[edge_rows[e]:edge_rows[e+1]]`` its
        ``beta`` list.
    fanout:
        ``fanout[p]`` = ``p``'s coupling blocks stacked in neighbor order
        (``None`` without neighbors): the same store entries, not a copy.

    Blocks, ``beta`` lists and directory are read-only views of the
    stores :func:`build_block_system` assembles (DESIGN.md §5.1).
    """

    A: CSRMatrix
    part: Partition
    diag_blocks: list[CSRMatrix]
    local_solvers: list[LocalSolver]
    couplings: dict[tuple[int, int], CSRMatrix]
    beta: dict[tuple[int, int], np.ndarray]
    perm: np.ndarray = None     # original-row permutation used
    edge_src: np.ndarray = None
    edge_dst: np.ndarray = None
    edge_rows: np.ndarray = None
    beta_rows: np.ndarray = None
    fanout: list[CSRMatrix | None] = None
    _pickle_args: tuple = None
    _diag_lu: object = field(default=None, repr=False, compare=False)

    def __reduce__(self):
        # the views would pickle as thousands of separate arrays
        return (_from_stores, self._pickle_args)

    @property
    def stores(self) -> tuple:
        """The stores the blocks view (DESIGN.md §5.1), ``(d_ptr, d_idx,
        d_data, c_ptr, c_idx, c_data, ...)``; columns block-local."""
        return self._pickle_args[4]

    @property
    def n(self) -> int:
        return self.A.n_rows

    def block_diag_solve(self):
        """One forward Gauss-Seidel sweep on every block at once, or
        ``None`` unless the local solver is one ``gs`` sweep.

        The solve of one SuperLU factor of the whole block diagonal's
        ``L+D``, built at the first call (a pickle drops it): rows
        ``rows_slice(p)`` of its result are bit-identical to
        ``local_solvers[p]``'s sweep on those rows (blocks are
        decoupled), so a batched relax solves once and keeps its
        winners' rows (DESIGN.md §5.8).
        """
        if self._diag_lu is None:
            if self._pickle_args[2:4] != ("gs", 1):
                return None
            d_ptr, d_idx, d_data = self.stores[:3]
            self._diag_lu = _splu_ld(_ld_whole(
                d_ptr, d_idx, d_data,
                np.asarray(self.part.offsets, dtype=np.int64)))
        return self._diag_lu.solve

    def factor_blocks(self) -> None:
        """Factor every Gauss-Seidel block not factored yet, operands cut
        from one whole-matrix ``L+D`` pass (DESIGN.md §5.1): up front,
        for runs in which every rank relaxes on its own."""
        if self._pickle_args[2] != "gs" or all(
                s._lu is not None for s in self.local_solvers):
            return
        d_ptr, d_idx, d_data = self.stores[:3]
        for s, LD in zip(self.local_solvers, _ld_operands(
                d_ptr, d_idx, d_data,
                np.asarray(self.part.offsets, dtype=np.int64))):
            if s._lu is None:
                s.factor(LD)

    @property
    def n_parts(self) -> int:
        return self.part.n_parts

    def rows_slice(self, p: int) -> slice:
        """Permuted row range owned by ``p``."""
        return slice(int(self.part.offsets[p]), int(self.part.offsets[p + 1]))

    def size_of(self, p: int) -> int:
        """Number of rows owned by process ``p``."""
        return self.part.size_of(p)

    def neighbors_of(self, p: int) -> np.ndarray:
        """Sorted neighbor ranks of process ``p``."""
        return self.part.neighbors[p]

    def initial_residual(self, x: np.ndarray, b: np.ndarray
                         ) -> list[np.ndarray]:
        """Per-process residual blocks of ``b - A x`` (permuted numbering)."""
        r = b - self.A.matvec(x)
        return [r[self.rows_slice(p)].copy() for p in range(self.n_parts)]


def _check_store(ptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 width: np.ndarray, name) -> None:
    """Prove, in one pass, what ``CSRMatrix._validate`` would check on
    every block cut from a store: pointer endpoints and monotonicity,
    ``indices``/``data`` lengths, and ``0 <= index < width`` (``width`` =
    per-entry column count of the owning block).  ``name(k)`` names the
    block holding entry ``k`` for the error message."""
    if (ptr[0] != 0 or ptr[-1] != indices.size
            or indices.size != data.size or np.any(np.diff(ptr) < 0)):
        raise ValueError("block store pointers inconsistent with its entries")
    bad = np.flatnonzero((indices < 0) | (indices >= width))
    if bad.size:
        raise ValueError(f"column index out of range in {name(bad[0])}")


def _cut_blocks(ptr: np.ndarray, bounds: np.ndarray, indices: np.ndarray,
                data: np.ndarray, n_cols: list[int]) -> list[CSRMatrix]:
    """The row segments ``bounds`` of one checked CSR store as matrices:
    three views each, no copy, no per-block validation."""
    loc = _segment_pointers(ptr, bounds)
    loc.setflags(write=False)
    rb, nb = bounds.tolist(), ptr[bounds].tolist()
    return [CSRMatrix._from_validated(
                loc[rb[s] + s:rb[s + 1] + s + 1], indices[nb[s]:nb[s + 1]],
                data[nb[s]:nb[s + 1]], (rb[s + 1] - rb[s], n_cols[s]))
            for s in range(len(rb) - 1)]


def build_block_system(A: CSRMatrix, part: Partition,
                       local_solver: str = "gs",
                       n_sweeps: int = 1) -> BlockSystem:
    """Build the per-process data in whole-array passes over the matrix.

    ``A`` is in *original* numbering; it is permuted here by ``part.perm``.
    The returned system's vectors (``x``, ``b``, residuals) live in the
    permuted numbering; use ``perm`` to map back.

    Every block is a read-only view of one of three stores (diagonal
    blocks, their ``L+D`` operands, couplings), wrapped without per-block
    validation: :func:`_check_store` proves each store once.
    """
    Aperm = A.permute(part.perm)
    offsets = np.asarray(part.offsets, dtype=np.int64)
    P = part.n_parts
    n = Aperm.n_rows
    sizes = np.diff(offsets)
    owner = np.repeat(np.arange(P), sizes)
    rows_g = Aperm._expanded_row_ids()
    cols_g, vals_g = Aperm.indices, Aperm.data
    po = owner[rows_g]
    # clipped, so a corrupt column reaches _check_store instead of
    # raising (or wrapping around) here
    qo = owner.take(cols_g, mode="clip")
    same = po == qo
    if local_solver == "gs":
        zero = np.flatnonzero(Aperm.diagonal() == 0.0)
        if zero.size:
            i = int(zero[0])
            raise ValueError(
                f"zero diagonal entry at row {int(part.perm[i])} (permuted "
                f"row {i}), owned by block {int(owner[i])}")

    # ---- diagonal blocks: row-major order is already block-row
    # contiguous, so the masked entries *are* the store
    d_own = po[same]
    d_idx = cols_g[same] - offsets[d_own]
    d_data = vals_g[same]
    d_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows_g[same], minlength=n), out=d_ptr[1:])
    _check_store(d_ptr, d_idx, d_data, sizes[d_own],
                 lambda k: f"diagonal block {d_own[k]}")

    # ---- couplings: the row-major entries, stably sorted by column
    # owner, are keyed (col owner p, row owner q, row, col) — every
    # B[(p, q)] is consecutive, rank p's blocks follow one another in
    # neighbor order (its stacked fan-out), and each run of one (p, row)
    # is one block row
    off = np.flatnonzero(~same)
    off = off[np.argsort(qo[off], kind="stable")]
    c_rows, pc, pr = rows_g[off], qo[off], po[off]
    c_idx = cols_g[off] - offsets[pc]
    c_data = vals_g[off]
    # (the [:size] slices drop the leading True when nothing is stored)
    head = np.flatnonzero(np.r_[True, (pc[1:] != pc[:-1])
                                | (c_rows[1:] != c_rows[:-1])][:off.size])
    c_ptr = np.r_[head, off.size]
    src, dst = pc[head], pr[head]                    # per block row
    beta_rows = c_rows[head] - offsets[dst]
    pair = src * P + dst
    first = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]][:head.size])
    edge_src, edge_dst = src[first], dst[first]
    edge_rows = np.r_[first, head.size]
    _check_store(c_ptr, c_idx, c_data, sizes[pc],
                 lambda k: f"coupling block ({pc[k]}, {pr[k]})")
    # the neighbor lists come from the same matrix, so the stored pairs
    # must be exactly the topology, in slab (owner-major) order
    if not (np.array_equal(edge_src, np.repeat(
                np.arange(P), [len(q) for q in part.neighbors]))
            and np.array_equal(edge_dst, np.concatenate(part.neighbors))):
        raise AssertionError("neighbor topology inconsistent with the "
                             "matrix's coupling blocks")
    stores = (d_ptr, d_idx, d_data, c_ptr, c_idx, c_data,
              edge_src, edge_dst, edge_rows, beta_rows)
    for arr in stores:
        arr.setflags(write=False)
    return _from_stores(Aperm, part, local_solver, n_sweeps, stores)


def _from_stores(Aperm: CSRMatrix, part: Partition, local_solver: str,
                 n_sweeps: int, stores: tuple) -> BlockSystem:
    """Cut the (checked, read-only) stores into a :class:`BlockSystem`
    and make the local solvers, factoring Gauss-Seidel blocks only where
    every rank relaxes on its own (:func:`_batched`).  Also the
    unpickling constructor: a system pickles as its stores, so a set-up
    cache hit maps a dozen arrays and then runs exactly this."""
    (d_ptr, d_idx, d_data, c_ptr, c_idx, c_data,
     edge_src, edge_dst, edge_rows, beta_rows) = stores
    offsets = np.asarray(part.offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    diag_blocks = _cut_blocks(d_ptr, offsets, d_idx, d_data, sizes.tolist())
    local_solvers = [make_local_solver(local_solver, App, n_sweeps=n_sweeps,
                                       _checked=True)
                     for App in diag_blocks]
    pq = list(zip(edge_src.tolist(), edge_dst.tolist()))
    couplings = dict(zip(pq, _cut_blocks(c_ptr, edge_rows, c_idx, c_data,
                                         sizes[edge_src].tolist())))
    beta = dict(zip(((q, p) for p, q in pq),
                    np.split(beta_rows, edge_rows[1:-1])))
    # rank p's stacked fan-out: the row span of all its pairs
    fan_rows = edge_rows[np.searchsorted(edge_src,
                                         np.arange(part.n_parts + 1))]
    fanout = [F if F.n_rows else None for F in _cut_blocks(
        c_ptr, fan_rows, c_idx, c_data, sizes.tolist())]
    system = BlockSystem(A=Aperm, part=part, diag_blocks=diag_blocks,
                         local_solvers=local_solvers, couplings=couplings,
                         beta=beta, perm=part.perm, edge_src=edge_src,
                         edge_dst=edge_dst, edge_rows=edge_rows,
                         beta_rows=beta_rows, fanout=fanout,
                         _pickle_args=(Aperm, part, local_solver, n_sweeps,
                                       stores))
    if not _batched(system.n, system.n_parts):
        system.factor_blocks()
    return system
