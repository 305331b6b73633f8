"""Chunked/streamed matrix generation (the million-row build path).

The seed generators assemble a COO triplet list for the *entire* matrix
(~9 float64/int64 triplets per row for a 5-point operator) and then sort
it, which peaks at hundreds of bytes per row before the CSR even exists.
At paper-class sizes (n >= 1M, DESIGN.md §5.13) that intermediate is the
single largest allocation of the whole pipeline.  This module builds the
CSR directly in row blocks instead:

- :func:`grid2d_stream` — the 5-point family (``poisson_2d`` and
  friends).  The per-row sparsity count is known in closed form, so the
  final ``indptr``/``indices``/``data`` arrays are allocated once and
  each block of grid rows is written straight into its slice.  Per-block
  position arithmetic runs in int32 whenever ``nnz`` and ``n`` fit.
- :func:`stream_coo_to_csr` — a streaming duplicate-summing accumulator
  for generators without a closed-form pattern (FEM assembly).  Chunks
  are merged one at a time into a sorted key/value store, dropping the
  rows/cols arrays and the global argsort scratch of the seed path.

Every function here is **bit-identical** to its seed counterpart — same
``indptr``/``indices``/``data`` bytes, hence the same ``matrix_digest``
— which the property tests (``tests/test_stream_matrices.py``) and the
``scripts/bench_scale.py`` digest gates enforce.  Two identities make
that possible:

- adding ``0.0`` in place of an absent stencil term is exact, so the
  blockwise diagonal fold ``((E + W) + N) + S`` reproduces the seed's
  ``np.bincount`` accumulation order;
- duplicate summation keeps raw triplets until one final ``reduceat``
  whose segments match the seed's global pass exactly (``reduceat`` is
  SIMD-pairwise, so partial per-chunk sums would reassociate).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from repro.sparsela import CSRMatrix

__all__ = [
    "grid2d_stream",
    "stream_coo_to_csr",
]

_INT32_LIMIT = int(np.iinfo(np.int32).max)

# target cells per generation block (~1M cells ≈ 8 MB of float64 scratch)
_BLOCK_CELLS = 1 << 20


def _pick_idx_dtype(*maxima: int):
    """int32 when every value fits, else int64 (the int32 policy)."""
    return np.int32 if all(m <= _INT32_LIMIT for m in maxima) else np.int64


def grid2d_stream(nx: int, ny: int,
                  coeff: Callable[[np.ndarray, np.ndarray], tuple],
                  block_rows: int | None = None) -> CSRMatrix:
    """Streamed 5-point assembly, bit-identical to ``_grid2d_entries``.

    ``coeff(i, j)`` follows the seed contract: conductivities of the west
    and south links of cell ``(i, j)``.  The coefficient field is still
    evaluated once on the full grid (it is two float64 arrays, small next
    to the triplet list the seed materializes), but the CSR is filled one
    block of ``block_rows`` grid rows at a time with no COO intermediate.
    """
    n = nx * ny
    if n == 0:
        return CSRMatrix(np.zeros(1, dtype=np.int64), np.zeros(0, np.int64),
                         np.zeros(0), (0, 0))
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    cx, cy = coeff(i, j)
    cx = np.broadcast_to(np.asarray(cx, dtype=np.float64), (ny, nx))
    cy = np.broadcast_to(np.asarray(cy, dtype=np.float64), (ny, nx))
    del i, j
    # link weights, exactly as the seed computes them
    wx = 0.5 * (cx[:, :-1] + cx[:, 1:])         # (ny, nx-1) horizontal
    wy = 0.5 * (cy[:-1, :] + cy[1:, :])         # (ny-1, nx) vertical
    # boundary faces keep only the four edge slices of the coefficient
    cx_w, cx_e = cx[:, 0].copy(), cx[:, -1].copy()
    cy_s, cy_n = cy[0, :].copy(), cy[-1, :].copy()
    del cx, cy

    # closed-form row counts -> indptr in one pass
    inc_i = np.zeros(nx, dtype=np.int64)
    inc_i[1:] += 1                              # has a west neighbor
    inc_i[:-1] += 1                             # has an east neighbor
    row_nnz = np.empty(ny, dtype=np.int64)      # nnz per grid row j
    row_nnz[:] = nx + int(inc_i.sum())          # diag + E/W links
    row_nnz[1:] += nx                           # S links
    row_nnz[:-1] += nx                          # N links
    indptr = np.zeros(n + 1, dtype=np.int64)    # filled blockwise below
    nnz = int(row_nnz.sum())
    indices = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz)

    if block_rows is None:
        block_rows = max(1, _BLOCK_CELLS // max(nx, 1))
    work_dt = _pick_idx_dtype(nnz, n)

    cell_inc = (1 + inc_i).astype(np.int64)     # diag + E/W per cell
    pos = 0
    for j0 in range(0, ny, block_rows):
        j1 = min(j0 + block_rows, ny)
        m = j1 - j0
        jj = np.arange(j0, j1)
        # per-cell nnz for this block -> indptr slice
        cnt = np.broadcast_to(cell_inc, (m, nx)).copy()
        cnt[jj > 0, :] += 1                     # S neighbor present
        cnt[jj < ny - 1, :] += 1                # N neighbor present
        flat_cnt = cnt.ravel()
        lo = j0 * nx
        np.cumsum(flat_cnt, out=indptr[lo + 1:j1 * nx + 1])
        indptr[lo + 1:j1 * nx + 1] += pos
        pos = int(indptr[j1 * nx])

        # stencil values for the block, 0.0 where the link is absent
        e_val = np.zeros((m, nx))
        w_val = np.zeros((m, nx))
        if nx > 1:
            e_val[:, :-1] = wx[j0:j1, :]
            w_val[:, 1:] = wx[j0:j1, :]
        n_val = np.zeros((m, nx))
        s_val = np.zeros((m, nx))
        has_n = jj < ny - 1
        has_s = jj > 0
        if ny > 1:
            n_val[has_n, :] = wy[jj[has_n], :]
            s_val[has_s, :] = wy[jj[has_s] - 1, :]
        # diagonal: the seed's bincount accumulates E, W, N, S in that
        # order starting from 0.0; adding 0.0 for absent links is exact
        diag = ((e_val + w_val) + n_val) + s_val
        bd = np.zeros((m, nx))
        bd[:, 0] += cx_w[j0:j1]
        bd[:, -1] += cx_e[j0:j1]
        if j0 == 0:
            bd[0, :] += cy_s
        if j1 == ny:
            bd[-1, :] += cy_n
        diag = diag + bd

        # scatter the five stencil members into their sorted-column slots
        r = np.arange(lo, j1 * nx, dtype=work_dt)
        base_pos = indptr[lo:j1 * nx].astype(work_dt)
        s_mask = np.broadcast_to(has_s[:, None], (m, nx)).ravel()
        n_mask = np.broadcast_to(has_n[:, None], (m, nx)).ravel()
        w_mask = np.broadcast_to(np.arange(nx) > 0, (m, nx)).ravel()
        e_mask = np.broadcast_to(np.arange(nx) < nx - 1, (m, nx)).ravel()
        s_cnt = s_mask.astype(work_dt)
        w_cnt = w_mask.astype(work_dt)
        e_cnt = e_mask.astype(work_dt)

        slot = base_pos[s_mask]                         # S at rank 0
        indices[slot] = r[s_mask] - nx
        data[slot] = -s_val.ravel()[s_mask]
        slot = (base_pos + s_cnt)[w_mask]               # W after S
        indices[slot] = r[w_mask] - 1
        data[slot] = -w_val.ravel()[w_mask]
        slot = base_pos + s_cnt + w_cnt                 # diag, always
        indices[slot] = r
        data[slot] = diag.ravel()
        slot = (base_pos + s_cnt + w_cnt + 1)[e_mask]   # E after diag
        indices[slot] = r[e_mask] + 1
        data[slot] = -e_val.ravel()[e_mask]
        slot = (base_pos + s_cnt + w_cnt + 1 + e_cnt)[n_mask]  # N last
        indices[slot] = r[n_mask] + nx
        data[slot] = -n_val.ravel()[n_mask]

    return CSRMatrix(indptr, indices, data, (n, n))


def stream_coo_to_csr(chunks: Iterable[tuple], shape: tuple[int, int]
                      ) -> CSRMatrix:
    """Duplicate-summing CSR build from an iterator of triplet chunks.

    Bit-identical to ``COOMatrix(concat(chunks)).to_csr()``.  The seed's
    ``sum_duplicates`` reduces each key's contribution segment with one
    ``np.add.reduceat`` call, and that reduction is SIMD-pairwise — not
    a left fold — so summing per-chunk partials would reassociate the
    floating-point sum.  Instead the accumulator holds the *raw* sorted
    ``(key, value)`` pairs (16 B/triplet, vs ~56 B live for the seed's
    rows/cols/vals plus argsort scratch): each sorted chunk is merged in
    linear time with ``searchsorted`` (ties keep earlier chunks first,
    i.e. original positional order), and a single final ``reduceat``
    then sees exactly the segments the seed's global pass sees.
    """
    m, n_cols = shape
    acc_keys = np.zeros(0, dtype=np.int64)
    acc_vals = np.zeros(0)
    for rows, cols, vals in chunks:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        keys = rows * n_cols + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = vals[order]
        if acc_keys.size == 0:
            acc_keys, acc_vals = keys, vals
            continue
        # linear merge: chunk entries slot in *after* equal-key entries
        # already accumulated, preserving global positional order
        ins = np.searchsorted(acc_keys, keys, side="right")
        total = acc_keys.size + keys.size
        chunk_pos = ins + np.arange(keys.size)
        acc_mask = np.ones(total, dtype=bool)
        acc_mask[chunk_pos] = False
        merged_keys = np.empty(total, dtype=np.int64)
        merged_vals = np.empty(total)
        merged_keys[chunk_pos] = keys
        merged_vals[chunk_pos] = vals
        merged_keys[acc_mask] = acc_keys
        merged_vals[acc_mask] = acc_vals
        acc_keys, acc_vals = merged_keys, merged_vals
    if acc_keys.size:
        boundary = np.empty(acc_keys.size, dtype=bool)
        boundary[0] = True
        np.not_equal(acc_keys[1:], acc_keys[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        out_keys = acc_keys[starts]
        out_vals = np.add.reduceat(acc_vals, starts)
    else:
        out_keys = acc_keys
        out_vals = acc_vals
    out_rows = out_keys // n_cols
    out_cols = out_keys % n_cols
    counts = np.bincount(out_rows, minlength=m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(indptr, out_cols, out_vals, shape)


def iter_chunks(total: int, block: int) -> Iterator[tuple[int, int]]:
    """Yield ``(lo, hi)`` ranges covering ``[0, total)`` in ``block`` steps."""
    for lo in range(0, total, block):
        yield lo, min(lo + block, total)

