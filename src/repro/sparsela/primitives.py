"""Compiled CSR primitives: the sparse substrate's run-time kernels.

Every solver in the package bottoms out in a CSR matrix-vector product,
a sparse lower-triangular solve and the Gauss-Seidel sweep built from
them.  Each is a plain function over scipy's compiled kernels:
``csr_matvec`` from ``scipy.sparse._sparsetools`` accumulates straight
into a caller-supplied buffer, so ``matvec(out=...)``
allocates nothing, and ``spsolve_triangular`` solves on the factor's
cached scipy handle.  The seed's pure-python loops are the test oracles
these functions are checked against (``tests/oracles.py``).

Two index/reduction helpers ride along for the block methods' batched
step loop: :func:`multi_arange` (many index ranges as one array) and
:class:`Segments` (the squared norms of any subset of a fixed family of
segments of one store, one BLAS call per distinct segment length).

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
    "Segments",
    "solve_lower",
]

_csr_matvec = _sparsetools.csr_matvec

#: BLAS ``ddot`` with the least dispatch (same bits as ``np.dot``)
_dot = np.ndarray.dot

_EMPTY_IDX = np.zeros(0, dtype=np.int64)

#: :meth:`Segments.sq` batches a subset only when it holds at least this
#: many segments *and* this many per distinct length.
#: Measured on a 2-core Xeon VM: a batch of one length costs ≈ 9–12 µs,
#: plus ≈ 2.5–3 µs per further length, a loop segment ≈ 0.5 µs (one
#: ``ddot``), so 36-entry segments break even at ≈ 24 segments of one
#: length and at ≈ 48 of four (DESIGN.md §5.8)
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


class Segments:
    """A fixed family of segments ``store[lo[i]:lo[i] + ln[i]]`` of one
    store, laid out once; :meth:`sq` takes the squared norms of any
    subset of them with no per-call sort.

    Bit-identical to one ``ndarray.dot`` per segment either way.  A
    subset of fewer than :data:`_SEGMENT_BATCH` segments, or of fewer
    than :data:`_SEGMENTS_PER_LENGTH` per distinct length, loops over
    the bound per-segment :attr:`views`.  Otherwise its segments of one
    length are gathered into a ``(g, L)`` block whose rows
    :func:`numpy.vecdot` reduces with numpy's vector·vector inner loop —
    the very ``DOUBLE_dot → cblas_ddot`` call ``ndarray.dot`` makes on a
    contiguous row (``np.add.reduceat`` sums in another order and is off
    by an ulp in about half the cases).  The length grouping is static —
    the segments stably sorted by length, and each one's group — so a
    subset takes its order by masking it, and each group's ``(g, L)``
    store positions by one broadcast add.
    """

    def __init__(self, store: np.ndarray, lo: np.ndarray, ln: np.ndarray):
        self.store = store
        #: ``store[lo[i]:lo[i] + ln[i]]`` for every segment ``i``
        self.views = [store[a:a + n] for a, n in zip(lo.tolist(),
                                                     ln.tolist())]
        self._lo, self._ln = lo, ln
        # segment ids, in the smallest dtype that holds them
        idt = np.int32 if ln.size <= np.iinfo(np.int32).max else np.int64
        self._order = order = np.argsort(ln, kind="stable").astype(idt)
        sl = ln[order]
        heads = np.flatnonzero(np.diff(sl, prepend=-1))
        self._lengths = sl[heads].tolist()
        self._group = np.empty(ln.size, dtype=idt)
        self._group[order] = np.repeat(np.arange(heads.size, dtype=idt),
                                       np.diff(np.append(heads, ln.size)))
        self._span = np.arange(sl[-1] if sl.size else 0, dtype=lo.dtype)
        self._out = np.empty(ln.size)

    def sq(self, ids: np.ndarray) -> np.ndarray:
        """``‖segment i‖²`` for every ``i`` of the distinct ``ids``, in
        ``ids`` order."""
        k = ids.size
        if k >= _SEGMENT_BATCH:
            counts = np.bincount(self._group[ids],
                                 minlength=len(self._lengths))
            if np.count_nonzero(counts) * _SEGMENTS_PER_LENGTH <= k:
                return self._batched_sq(ids, counts.tolist())
        views = self.views
        vs = [views[i] for i in ids.tolist()]
        return np.array(list(map(_dot, vs, vs)), dtype=np.float64)

    def _batched_sq(self, ids: np.ndarray, counts: list) -> np.ndarray:
        order = self._order
        sel = np.zeros(self._ln.size, dtype=bool)
        sel[ids] = True
        chosen = order[sel[order]]          # the subset by length
        starts = self._lo[chosen, None]
        sq = np.empty(ids.size)
        a = 0
        for c, n in zip(counts, self._lengths):
            if c:
                block = self.store.take(starts[a:a + c] + self._span[:n])
                np.vecdot(block, block, out=sq[a:a + c])
                a += c
        out = self._out
        out[chosen] = sq
        return out[ids]
