"""Local subdomain solvers (the per-process relaxation kernel).

When a process relaxes, it approximately solves its diagonal block against
the current local residual: ``dx = M_p^{-1} r_p``.  The paper's experiments
all use one forward Gauss-Seidel sweep (``-loc_solver gs``); the artifact
also offers a PARDISO direct solve, which we mirror with SuperLU.

Both solvers factor once so an ``apply`` is a single compiled triangular
solve (the hot loop of every experiment): the direct solver at
construction, Gauss-Seidel at first use.
"""

from __future__ import annotations

import numpy as np

from repro.config import require_int
from repro.sparsela import CSRMatrix
from repro.sparsela.csr import _segment_pointers

__all__ = ["DirectLocal", "GaussSeidelLocal", "LocalSolver",
           "make_local_solver"]


class LocalSolver:
    """Interface: ``apply(r) -> dx`` with a per-apply flop estimate."""

    #: estimated flops per apply (cost-model input)
    flops: float

    def apply(self, r: np.ndarray) -> np.ndarray:  # pragma: no cover
        """Approximate solve: ``dx`` with ``A_pp dx ~= r``."""
        raise NotImplementedError

    def bind(self):
        """A callable equivalent to :meth:`apply` with any python wrapper
        layers peeled off (the hot loop's dispatch target), factoring
        first if that has not happened yet."""
        return self.apply


class GaussSeidelLocal(LocalSolver):
    """``n_sweeps`` forward Gauss-Seidel sweeps on the diagonal block.

    One sweep is ``dx = (L+D)^{-1} r``; further sweeps re-form the local
    residual ``r - A_pp dx`` and accumulate.  The ``L+D`` factor (SuperLU,
    natural ordering keeps it triangular) is built at the first apply or
    :meth:`bind`, or by :meth:`factor` — so each sweep is one compiled
    solve, and a rank that never relaxes on its own never holds one: a
    block build whose steps relax their winners together solves one
    factor of the whole block diagonal instead (DESIGN.md §5.8).
    """

    def __init__(self, App: CSRMatrix, n_sweeps: int = 1,
                 _checked: bool = False):
        n_sweeps = require_int("n_sweeps", n_sweeps, 1)
        if App.n_rows != App.n_cols:
            raise ValueError("diagonal block must be square")
        # the block build has already made the zero-diagonal check in
        # its whole-matrix pass
        if not _checked and App.has_zero_diagonal:
            raise ValueError("zero diagonal entry in local block")
        self.n_sweeps = n_sweeps
        self.n = App.n_rows
        # the operand source for multi-sweep applies, the lazy factor
        # *and* the pickle seed (the SuperLU factor cannot cross
        # process/disk boundaries); it is the caller's diag block, so
        # this is a reference, not a copy
        self._App = App
        self._lu = None
        # multi-sweep local residual workspace (no per-apply allocation)
        self._ws = np.empty(App.n_rows) if n_sweeps > 1 else None
        self.flops = float(n_sweeps * (2 * App.nnz + App.n_rows))

    def factor(self, ld=None) -> None:
        """Factor ``L+D`` now: from ``ld``, the block build's cut of its
        whole-matrix operand, else derived from the block."""
        if ld is None:
            A = self._App
            ld = _ld_whole(A.indptr, A.indices, A.data,
                           np.array([0, self.n]))
        self._lu = _splu_ld(ld)

    def bind(self):
        if self._lu is None:
            self.factor()
        # one sweep is exactly one triangular solve
        return self._lu.solve if self.n_sweeps == 1 else self.apply

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``n_sweeps`` GS sweeps against the residual ``r``."""
        if self._lu is None:
            self.factor()
        dx = self._lu.solve(r)
        for _ in range(self.n_sweeps - 1):
            ws = self._ws
            self._App.matvec(dx, out=ws)
            np.subtract(r, ws, out=ws)
            dx += self._lu.solve(ws)
        return dx

    def __reduce__(self):
        # the SuperLU factor is not picklable: serialize the block and
        # the sweep count, re-factorize at first use after load
        return (GaussSeidelLocal, (self._App, self.n_sweeps))


class DirectLocal(LocalSolver):
    """Exact local solve ``dx = A_pp^{-1} r`` (PARDISO stand-in: SuperLU)."""

    def __init__(self, App: CSRMatrix):
        import scipy.sparse.linalg as spla

        if App.n_rows != App.n_cols:
            raise ValueError("diagonal block must be square")
        self.n = App.n_rows
        self._App = App
        self._lu = spla.splu(App.to_scipy().tocsc())
        fact_nnz = self._lu.L.nnz + self._lu.U.nnz
        self.flops = float(2 * fact_nnz)

    def bind(self):
        return self._lu.solve

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Exact solve against the residual ``r``."""
        return self._lu.solve(r)

    def __reduce__(self):
        # see GaussSeidelLocal.__reduce__: re-factorize on load
        return (DirectLocal, (self._App,))


def _splu_ld(ld):
    """The SuperLU factor of an ``L+D`` operand: natural ordering, so
    the factor is the triangle and a solve is one forward sweep."""
    import scipy.sparse.linalg as spla

    return spla.splu(ld, permc_spec="NATURAL",
                     options={"SymmetricMode": False})


def _ld_whole(ptr: np.ndarray, idx: np.ndarray, vals: np.ndarray,
              offsets: np.ndarray):
    """``L+D`` of a block-diagonal matrix as one ``csc_matrix``.

    ``ptr``/``idx``/``vals`` is the matrix as one CSR store with
    block-local columns (block ``p`` spans rows
    ``offsets[p]:offsets[p+1]``).  One mask keeps the ``col <= row``
    entries; they are in row-major order, so a stable sort by column
    puts them column-major with rows ascending — canonical CSC in
    scipy's own index dtype, the arrays ``ld_factor().to_scipy().tocsc()``
    would hand over, so factors and solves are bit-identical.  Blocks
    are decoupled, so one factor of the whole matrix solves every block
    exactly as the block's own factor does: the elimination tree is a
    forest of per-block trees, and no supernode or pivot search crosses
    a block.
    """
    import scipy.sparse as sp

    n = int(offsets[-1])
    rows = np.repeat(np.arange(n), np.diff(ptr))
    cols = idx + np.repeat(offsets[:-1], np.diff(ptr[offsets]))
    keep = np.flatnonzero(cols <= rows)
    keep = keep[np.argsort(cols[keep], kind="stable")]
    dt = np.int32 if max(n, keep.size) <= np.iinfo(np.int32).max \
        else np.int64
    colptr = np.zeros(n + 1, dtype=dt)
    np.cumsum(np.bincount(cols[keep], minlength=n), out=colptr[1:])
    LD = sp.csc_matrix((vals[keep], rows[keep].astype(dt), colptr),
                       shape=(n, n))
    LD.has_canonical_format = True
    return LD


def _ld_operands(ptr: np.ndarray, idx: np.ndarray, vals: np.ndarray,
                 offsets: np.ndarray) -> list:
    """The CSC ``L+D`` operand of every diagonal block: a block-diagonal
    matrix's CSC is its blocks' CSCs back to back, so each operand is a
    ``csc_matrix`` over three slices of :func:`_ld_whole`'s store."""
    import scipy.sparse as sp

    LD = _ld_whole(ptr, idx, vals, offsets)
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
                      _checked: bool = False) -> LocalSolver:
    """Factory keyed by the artifact's ``-loc_solver`` names.

    ``'gs'`` → :class:`GaussSeidelLocal` (default everywhere in the paper);
    ``'direct'`` → :class:`DirectLocal`.
    """
    if kind == "gs":
        return GaussSeidelLocal(App, n_sweeps=n_sweeps, _checked=_checked)
    if kind == "direct":
        return DirectLocal(App)
    raise ValueError(f"unknown local solver {kind!r} (use 'gs' or 'direct')")
