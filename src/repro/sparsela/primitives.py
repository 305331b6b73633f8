"""Compiled CSR primitives: the sparse substrate's run-time kernels.

Every solver in the package bottoms out in a CSR matrix-vector product,
a sparse lower-triangular solve and the Gauss-Seidel sweep built from
them.  Each is a plain function over scipy's compiled kernels:
``csr_matvec`` / ``csc_matvec`` from ``scipy.sparse._sparsetools``
accumulate straight into a caller-supplied buffer, so ``matvec(out=...)``
allocates nothing, and ``spsolve_triangular`` solves on the factor's
cached scipy handle.  The seed's pure-python loops are the test oracles
these functions are checked against (``tests/oracles.py``).

Two index/reduction helpers ride along for the block methods' batched
step loop: :func:`multi_arange` (many index ranges as one array) and
:func:`segment_sq` (the squared norms of many segments of one store,
one BLAS call per distinct segment length).

The functions take a :class:`~repro.sparsela.csr.CSRMatrix` duck-typed
(``shape`` / ``indptr`` / ``indices`` / ``data`` plus the cached-handle
helpers), so this module imports nothing from the package and ``csr.py``
imports it without a cycle.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

__all__ = [
    "csr_matvec",
    "gauss_seidel_sweep",
    "matvec",
    "matvec_plan",
    "multi_arange",
    "rmatvec",
    "segment_plan",
    "segment_sq",
    "solve_lower",
]

_csr_matvec = _sparsetools.csr_matvec
_csc_matvec = _sparsetools.csc_matvec

#: BLAS ``ddot`` with the least dispatch (same bits as ``np.dot``)
_dot = np.ndarray.dot

_EMPTY_IDX = np.zeros(0, dtype=np.int64)

#: :func:`segment_plan` batches a run of segments only when it holds at
#: least this many segments *and* this many per distinct length.
#: Measured on a 2-core Xeon VM: a batch costs ≈ 17 µs plus ≈ 2.5 µs
#: per length group, a loop segment ≈ 0.7 µs (one ``ddot``), so runs of
#: 6–36-entry segments of one length break even at 24–32 segments
#: (DESIGN.md §5.8)
_SEGMENT_BATCH = 32
_SEGMENTS_PER_LENGTH = 4


def _writable_contig(out: np.ndarray) -> bool:
    return out.flags.c_contiguous and out.flags.writeable


def matvec(A, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``A @ x``; with ``out`` given the product accumulates into it and
    nothing is allocated."""
    S = A.to_scipy()
    if out is None:
        return S @ x
    if not _writable_contig(out):
        out[:] = S @ x              # pragma: no cover - strided output
        return out
    x = np.ascontiguousarray(x, dtype=np.float64)
    out[:] = 0.0
    m, n = A.shape
    _csr_matvec(m, n, S.indptr, S.indices, S.data, x, out)
    return out


def matvec_plan(A):
    """Return ``f(x, out)`` computing ``A @ x`` into ``out``.

    The plan binds ``A``'s current storage so the per-call dispatch
    (handle lookups, layout checks) is paid once instead of per product
    — the block methods call it thousands of times per parallel step on
    the frozen coupling blocks.  Bit-identical to ``matvec(A, x,
    out=out)``.  Preconditions the block methods guarantee: ``x`` /
    ``out`` are contiguous float64 of the right shape, and ``A.data`` is
    never rebound while the plan is live.
    """
    m, n = A.shape
    S = A._derived_cache().get("scipy")
    if S is None:
        # no handle yet (the block methods' diagonal and throw-away
        # stacked fan-out blocks): the kernel needs only the three
        # arrays, so bind them under scipy's own index-dtype rule
        # instead of constructing a csr_matrix per block
        idt = (np.int32 if max(m, n, A.nnz) <= np.iinfo(np.int32).max
               else np.int64)
        indptr = A.indptr.astype(idt, copy=False)
        indices = A.indices.astype(idt, copy=False)
        data = A.data
    else:
        indptr, indices, data = S.indptr, S.indices, S.data

    def plan(x, out, _kernel=_csr_matvec, _m=m, _n=n, _indptr=indptr,
             _indices=indices, _data=data):
        out[:] = 0.0
        _kernel(_m, _n, _indptr, _indices, _data, x, out)
    return plan


def csr_matvec(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               x: np.ndarray, out: np.ndarray) -> None:
    """``out = A @ x`` over raw CSR arrays whose ``indptr`` may be a
    slice of a larger store's; rows sum in entry order, as matvec."""
    out[:] = 0.0
    _csr_matvec(out.size, x.size, indptr, indices, data, x, out)


def rmatvec(A, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``A.T @ y`` without forming the transpose: the CSR arrays of ``A``
    read as the CSC arrays of ``A.T``, one compiled pass."""
    S = A.to_scipy()
    if out is None:
        out = np.zeros(A.n_cols)
    elif not _writable_contig(out):
        out[:] = S.T @ y            # pragma: no cover - strided output
        return out
    else:
        out[:] = 0.0
    y = np.ascontiguousarray(y, dtype=np.float64)
    m, n = A.shape
    _csc_matvec(n, m, S.indptr, S.indices, S.data, y, out)
    return out


def solve_lower(L, b: np.ndarray, unit_diagonal: bool = False) -> np.ndarray:
    """Solve ``L y = b`` for lower-triangular ``L``."""
    from scipy.sparse.linalg import spsolve_triangular

    return spsolve_triangular(L.to_scipy(), b, lower=True,
                              unit_diagonal=unit_diagonal)


def gauss_seidel_sweep(A, x: np.ndarray, b: np.ndarray,
                       r: np.ndarray | None = None) -> np.ndarray:
    """One forward Gauss-Seidel sweep ``x + (L+D)^{-1} (b - A x)``.

    ``L + D`` is the matrix's cached lower-triangle factor, so repeated
    sweeps do no structural work.  If the current residual ``r = b - A
    x`` is already known, pass it to skip one matvec.
    """
    x = np.asarray(x, dtype=np.float64)
    if r is None:
        r = np.asarray(b, dtype=np.float64) - matvec(A, x)
    return x + solve_lower(A.ld_factor(), r)


def multi_arange(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[k], stops[k])`` without a loop
    (``stops >= starts``).

    Each run is its output positions shifted by ``starts[k]`` minus the
    run's output offset: one ``repeat`` of the per-run shifts added to
    one ``arange``.  Expands per-segment ranges into one flat index so a
    whole batch of region copies runs as a single fancy assignment.  The
    result keeps the inputs' integer dtype, so an int32 index plan flows
    through every derived index (the values are buffer positions, which
    fit whenever the offsets themselves do).
    """
    dtype = starts.dtype if starts.dtype.kind == "i" else np.int64
    lens = stops - starts
    ends = np.cumsum(lens, dtype=dtype)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return _EMPTY_IDX
    return (np.arange(total, dtype=dtype)
            + np.repeat(starts - ends + lens, lens))


def segment_plan(lo: np.ndarray, ln: np.ndarray):
    """The length grouping :func:`segment_sq` batches by; ``()`` (run
    the per-segment loop) when that is cheaper: fewer than
    :data:`_SEGMENT_BATCH` segments, or fewer than
    :data:`_SEGMENTS_PER_LENGTH` segments per distinct length.

    A plan is ``(order, gather, groups)``: the segments sorted by length,
    the store positions of all of them in that order, and each length
    group's ``(first, stop, length)`` in the sorted order.  It depends on
    ``lo``/``ln`` only, so one plan serves every store laid out alike.
    """
    k = ln.size
    if k < _SEGMENT_BATCH:
        return ()
    order = np.argsort(ln, kind="stable")
    sl = ln[order]
    cuts = np.flatnonzero(sl[1:] != sl[:-1]) + 1
    if (cuts.size + 1) * _SEGMENTS_PER_LENGTH > k:
        return ()
    so = lo[order]
    heads = [0, *cuts.tolist()]
    groups = list(zip(heads, heads[1:] + [k], sl[heads].tolist()))
    return order, multi_arange(so, so + sl), groups


def segment_sq(store: np.ndarray, lo: np.ndarray, ln: np.ndarray,
               plan=None) -> np.ndarray:
    """``store[lo[i]:lo[i] + ln[i]] · itself`` for every segment ``i``.

    Bit-identical to one ``ndarray.dot`` per segment: the segments of
    one length are gathered into a ``(g, L)`` block whose rows
    :func:`numpy.vecdot` reduces with numpy's vector·vector inner loop —
    the very ``DOUBLE_dot → cblas_ddot`` call ``ndarray.dot`` makes on
    a contiguous row (``np.add.reduceat`` sums in another order and is
    off by an ulp in about half the cases).  ``plan`` is
    :func:`segment_plan`'s result for ``(lo, ln)``, computed here when
    not given.
    """
    if plan is None:
        plan = segment_plan(lo, ln)
    if not plan:
        views = [store[a:a + n] for a, n in zip(lo.tolist(), ln.tolist())]
        return np.array(list(map(_dot, views, views)), dtype=np.float64)
    order, gather, groups = plan
    flat = store[gather]
    sq = np.empty(ln.size)
    pos = 0
    for a, b, n in groups:
        block = flat[pos:pos + (b - a) * n].reshape(b - a, n)
        np.vecdot(block, block, out=sq[a:b])
        pos += (b - a) * n
    out = np.empty(ln.size)
    out[order] = sq
    return out
