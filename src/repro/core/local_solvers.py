"""Local subdomain solvers (the per-process relaxation kernel).

When a process relaxes, it approximately solves its diagonal block against
the current local residual: ``dx = M_p^{-1} r_p``.  The paper's experiments
all use one forward Gauss-Seidel sweep (``-loc_solver gs``); the artifact
also offers a PARDISO direct solve, which we mirror with SuperLU.

Both solvers pre-factorize at setup so an ``apply`` is a single compiled
triangular solve (the hot loop of every experiment).
"""

from __future__ import annotations

import numpy as np

from repro.sparsela import CSRMatrix
from repro.sparsela.csr import _segment_pointers

__all__ = ["DirectLocal", "GaussSeidelLocal", "LocalSolver",
           "make_local_solver"]


class LocalSolver:
    """Interface: ``apply(r) -> dx`` with a per-apply flop estimate."""

    #: estimated flops per apply (cost-model input)
    flops: float
    #: optional bound callable equivalent to :meth:`apply` with any python
    #: wrapper layers peeled off (hot-loop dispatch target)
    apply_fast = None

    def apply(self, r: np.ndarray) -> np.ndarray:  # pragma: no cover
        """Approximate solve: ``dx`` with ``A_pp dx ~= r``."""
        raise NotImplementedError


class GaussSeidelLocal(LocalSolver):
    """``n_sweeps`` forward Gauss-Seidel sweeps on the diagonal block.

    One sweep is ``dx = (L+D)^{-1} r``; further sweeps re-form the local
    residual ``r - A_pp dx`` and accumulate.  The ``L+D`` factor is
    pre-factorized once (SuperLU, natural ordering keeps it triangular) so
    each sweep is one compiled solve.
    """

    def __init__(self, App: CSRMatrix, n_sweeps: int = 1, _ld=None):
        import scipy.sparse.linalg as spla

        if n_sweeps < 1:
            raise ValueError("n_sweeps must be at least 1")
        if App.n_rows != App.n_cols:
            raise ValueError("diagonal block must be square")
        if _ld is None:
            # standalone (and unpickled) solvers derive their own operand;
            # the block build hands over one cut from its whole-matrix
            # pass, with the zero-diagonal check already made there
            if App.has_zero_diagonal:
                raise ValueError("zero diagonal entry in local block")
            _ld, = _ld_operands(App.indptr, App.indices, App.data,
                                np.array([0, App.n_rows]))
        self.n_sweeps = n_sweeps
        self.n = App.n_rows
        # kept for multi-sweep applies *and* as the pickle seed (the
        # SuperLU factor cannot cross process/disk boundaries); it is the
        # caller's diag block, so this is a reference, not a copy
        self._App = App
        self._factor = spla.splu(_ld, permc_spec="NATURAL",
                                 options={"SymmetricMode": False})
        # multi-sweep local residual workspace (no per-apply allocation)
        self._ws = np.empty(App.n_rows) if n_sweeps > 1 else None
        self.flops = float(n_sweeps * (2 * App.nnz + App.n_rows))
        # one sweep is exactly one triangular solve
        self.apply_fast = self._factor.solve if n_sweeps == 1 else self.apply

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``n_sweeps`` GS sweeps against the residual ``r``."""
        dx = self._factor.solve(r)
        for _ in range(self.n_sweeps - 1):
            ws = self._ws
            self._App.matvec(dx, out=ws)
            np.subtract(r, ws, out=ws)
            dx += self._factor.solve(ws)
        return dx

    def __reduce__(self):
        # the SuperLU factor is not picklable: serialize the block and
        # the sweep count, re-factorize on load
        return (GaussSeidelLocal, (self._App, self.n_sweeps))


class DirectLocal(LocalSolver):
    """Exact local solve ``dx = A_pp^{-1} r`` (PARDISO stand-in: SuperLU)."""

    def __init__(self, App: CSRMatrix):
        import scipy.sparse.linalg as spla

        if App.n_rows != App.n_cols:
            raise ValueError("diagonal block must be square")
        self.n = App.n_rows
        self._App = App
        self._factor = spla.splu(App.to_scipy().tocsc())
        fact_nnz = self._factor.L.nnz + self._factor.U.nnz
        self.flops = float(2 * fact_nnz)
        self.apply_fast = self._factor.solve

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Exact solve against the residual ``r``."""
        return self._factor.solve(r)

    def __reduce__(self):
        # see GaussSeidelLocal.__reduce__: re-factorize on load
        return (DirectLocal, (self._App,))


def _ld_operands(ptr: np.ndarray, idx: np.ndarray, vals: np.ndarray,
                 offsets: np.ndarray) -> list:
    """The CSC ``L+D`` operand SuperLU factors, for every diagonal block.

    ``ptr``/``idx``/``vals`` is a block-diagonal matrix as one CSR store
    with block-local columns (block ``p`` spans rows
    ``offsets[p]:offsets[p+1]``).  One mask and one conversion put all
    blocks' lower triangles column-major into a single store — a
    block-diagonal matrix's CSC is its blocks' CSCs back to back — and
    each operand is a ``csc_matrix`` over three slices of it: the entries
    ``ld_factor().to_scipy().tocsc()`` would hand over, so the factors
    and every solve are bit-identical.
    """
    import scipy.sparse as sp

    n = int(offsets[-1])
    rows = np.repeat(np.arange(n), np.diff(ptr))
    cols = idx + np.repeat(offsets[:-1], np.diff(ptr[offsets]))
    keep = cols <= rows
    LD = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                       shape=(n, n)).tocsc()
    cut = LD.indptr[offsets]
    # the store keeps scipy's index dtype, so the per-block constructor
    # adopts the slices without copying
    loc_rows = LD.indices - np.repeat(offsets[:-1], np.diff(cut)).astype(
        LD.indices.dtype)
    colptr = _segment_pointers(LD.indptr, offsets)
    for arr in (LD.data, loc_rows, colptr):
        arr.setflags(write=False)
    out = []
    cut, rb = cut.tolist(), offsets.tolist()
    for p in range(len(rb) - 1):
        m = rb[p + 1] - rb[p]
        S = sp.csc_matrix(
            (LD.data[cut[p]:cut[p + 1]], loc_rows[cut[p]:cut[p + 1]],
             colptr[rb[p] + p:rb[p + 1] + p + 1]), shape=(m, m))
        S.has_canonical_format = True   # sorted, duplicate-free: no re-scan
        out.append(S)
    return out


def make_local_solver(kind: str, App: CSRMatrix, n_sweeps: int = 1,
                      _ld=None) -> LocalSolver:
    """Factory keyed by the artifact's ``-loc_solver`` names.

    ``'gs'`` → :class:`GaussSeidelLocal` (default everywhere in the paper);
    ``'direct'`` → :class:`DirectLocal`.
    """
    if kind == "gs":
        return GaussSeidelLocal(App, n_sweeps=n_sweeps, _ld=_ld)
    if kind == "direct":
        return DirectLocal(App)
    raise ValueError(f"unknown local solver {kind!r} (use 'gs' or 'direct')")
