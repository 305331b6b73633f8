"""Compiled CSR primitives: the sparse substrate's run-time kernels.

Every solver in the package bottoms out in a CSR matrix-vector product,
a sparse lower-triangular solve and the Gauss-Seidel sweep built from
them.  Each is a plain function over scipy's compiled kernels:
``csr_matvec`` / ``csc_matvec`` from ``scipy.sparse._sparsetools``
accumulate straight into a caller-supplied buffer, so ``matvec(out=...)``
allocates nothing, and ``spsolve_triangular`` solves on the factor's
cached scipy handle.  The seed's pure-python loops are the test oracles
these functions are checked against (``tests/oracles.py``).

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
    "rmatvec",
    "solve_lower",
]

_csr_matvec = _sparsetools.csr_matvec
_csc_matvec = _sparsetools.csc_matvec


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
