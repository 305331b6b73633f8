"""Compressed sparse row matrix, built from scratch on numpy arrays.

This is the working format for every solver in the package.  The class keeps
the three canonical arrays (``indptr``, ``indices``, ``data``) with column
indices sorted within each row and no duplicate coordinates, which is the
invariant assumed by all kernels.

Design notes (following the HPC-Python guides): all bulk operations are
vectorised numpy; ``matvec`` runs scipy's compiled kernel
(:mod:`repro.sparsela.primitives`), and with ``out=`` they accumulate
straight into the caller's buffer so the hot loop allocates nothing.
Derived structure that relaxation
kernels need every sweep — the diagonal, its zero check, the ``L+D``
Gauss-Seidel factor, the scipy handle — is
computed once per matrix and cached, invalidated when ``data`` is
replaced.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.sparsela import primitives

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """Sparse matrix in compressed sparse row format.

    Parameters
    ----------
    indptr:
        ``(m+1,)`` row-pointer array; row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        ``(nnz,)`` column indices, sorted within each row, no duplicates.
    data:
        ``(nnz,)`` entry values.
    shape:
        ``(m, n)``.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_row_ids",
                 "_derived", "_derived_src", "__weakref__")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, shape: tuple[int, int]):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._row_ids: np.ndarray | None = None
        self._derived: dict | None = None
        self._derived_src = None
        self._validate()

    # ------------------------------------------------------------------
    # construction & validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        m, n = self.shape
        if self.indptr.shape != (m + 1,):
            raise ValueError(f"indptr has shape {self.indptr.shape}, "
                             f"expected ({m + 1},)")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data lengths differ")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= n:
                raise ValueError("column index out of range")

    @classmethod
    def _from_validated(cls, indptr: np.ndarray, indices: np.ndarray,
                        data: np.ndarray,
                        shape: tuple[int, int]) -> "CSRMatrix":
        """Adopt arrays as they are: no copy, no cast, no checks.  **The
        caller has validated them** (contiguous int64 / int64 / float64
        meeting :meth:`_validate`).  Private to the block build
        (:mod:`repro.core.blockdata`), which cuts thousands of views from
        one store and proves the conditions for all of them in one pass.
        """
        self = cls.__new__(cls)
        self.__setstate__((indptr, indices, data, shape))
        return self

    @classmethod
    def from_coo(cls, rows: Iterable[int], cols: Iterable[int],
                 vals: Iterable[float], shape: tuple[int, int]) -> "CSRMatrix":
        """Build from triplets (duplicates summed)."""
        from repro.sparsela.coo import COOMatrix

        return COOMatrix(np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows),
                         np.asarray(list(cols) if not isinstance(cols, np.ndarray) else cols),
                         np.asarray(list(vals) if not isinstance(vals, np.ndarray) else vals),
                         shape).to_csr()

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense array, dropping ``|a| <= tol`` entries."""
        from repro.sparsela.coo import COOMatrix

        return COOMatrix.from_dense(dense, tol=tol).to_csr()

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any scipy.sparse matrix."""
        csr = mat.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(csr.indptr.astype(np.int64), csr.indices.astype(np.int64),
                   csr.data.astype(np.float64), csr.shape)

    @classmethod
    def identity(cls, n: int, scale: float = 1.0) -> "CSRMatrix":
        """``scale * I`` of order ``n``."""
        idx = np.arange(n, dtype=np.int64)
        return cls(np.arange(n + 1, dtype=np.int64), idx,
                   np.full(n, float(scale)), (n, n))

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def row_counts(self) -> np.ndarray:
        """Entries per row."""
        return np.diff(self.indptr)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``(columns, values)`` for row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def _expanded_row_ids(self) -> np.ndarray:
        """Cached ``(nnz,)`` array mapping entry position -> row index."""
        if self._row_ids is None or self._row_ids.size != self.nnz:
            self._row_ids = np.repeat(
                np.arange(self.n_rows, dtype=np.int64), self.row_counts())
        return self._row_ids

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(self.indptr.copy(), self.indices.copy(),
                         self.data.copy(), self.shape)

    def __getstate__(self):
        """Pickle only the canonical arrays (setup-plane cache format).

        The derived caches (scipy handle, SuperLU-adjacent factors, row-id
        expansion) are dropped: they may hold unpicklable compiled
        objects, and they rebuild lazily on first use after load.
        """
        return (self.indptr, self.indices, self.data, self.shape)

    def __setstate__(self, state):
        indptr, indices, data, shape = state
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = shape
        self._row_ids = None
        self._derived = None
        self._derived_src = None

    def __repr__(self) -> str:
        return (f"CSRMatrix(shape={self.shape}, nnz={self.nnz})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.data, other.data))

    def __hash__(self):  # mutable container
        raise TypeError("CSRMatrix is unhashable")

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A @ x`` through the compiled CSR kernel.

        Parameters
        ----------
        x:
            ``(n,)`` input vector.
        out:
            Optional preallocated ``(m,)`` output (overwritten).  The
            product accumulates directly into ``out`` — no intermediate
            array is allocated.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n_cols},)")
        if out is not None and out.shape != (self.n_rows,):
            raise ValueError(f"out has shape {out.shape}, "
                             f"expected ({self.n_rows},)")
        return primitives.matvec(self, x, out=out)

    def matmat(self, other: "CSRMatrix") -> "CSRMatrix":
        """Sparse-sparse product ``A @ B``.

        Dispatches to scipy's compiled SpGEMM (validated against dense
        products in the tests); used by the Galerkin coarse-operator
        construction ``R A P`` in the multigrid package.
        """
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"shape mismatch: {self.shape} @ {other.shape}")
        out = self.to_scipy() @ other.to_scipy()
        return CSRMatrix.from_scipy(out)

    def scale(self, alpha: float) -> "CSRMatrix":
        """Return ``alpha * A``."""
        return CSRMatrix(self.indptr.copy(), self.indices.copy(),
                         self.data * float(alpha), self.shape)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _derived_cache(self) -> dict:
        """Per-matrix cache of derived structure (diag, sweep factors).

        Invalidated when ``data`` is replaced — the same discipline as
        the cached scipy handle.  In-place mutation of ``data`` is not
        part of the matrix's contract (arithmetic returns new objects).
        """
        if self._derived is None or self._derived_src is not self.data:
            self._derived = {}
            self._derived_src = self.data
        return self._derived

    def diagonal(self) -> np.ndarray:
        """The matrix diagonal as a dense vector (zeros where unstored).

        Cached per matrix and returned read-only; copy before mutating.
        """
        cache = self._derived_cache()
        d = cache.get("diag")
        if d is None:
            m, n = self.shape
            d = np.zeros(min(m, n))
            rows = self._expanded_row_ids()
            mask = self.indices == rows
            hit_rows = rows[mask]
            d[hit_rows] = self.data[mask]
            d.setflags(write=False)
            cache["diag"] = d
        return d

    @property
    def has_zero_diagonal(self) -> bool:
        """Whether any (stored or implicit) diagonal entry is zero (cached)."""
        cache = self._derived_cache()
        flag = cache.get("diag_zero")
        if flag is None:
            flag = bool(np.any(self.diagonal() == 0.0))
            cache["diag_zero"] = flag
        return flag

    def ld_factor(self) -> "CSRMatrix":
        """The cached Gauss-Seidel factor ``L + D`` (lower triangle).

        Built once per matrix so repeated sweeps do zero structural
        work; the factor's own cached scipy handle gives the compiled
        triangular solve a ready operand.
        """
        cache = self._derived_cache()
        ld = cache.get("ld")
        if ld is None:
            ld = self.lower_triangle(include_diagonal=True)
            cache["ld"] = ld
        return ld

    def transpose(self) -> "CSRMatrix":
        """Explicit transpose (CSR of ``A.T``)."""
        from repro.sparsela.coo import COOMatrix

        return COOMatrix(self.indices, self._expanded_row_ids(), self.data,
                         (self.n_cols, self.n_rows)).to_csr()

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        """Structural+numeric symmetry check (square matrices only)."""
        if self.n_rows != self.n_cols:
            return False
        t = self.transpose()
        if not np.array_equal(t.indptr, self.indptr):
            return False
        if not np.array_equal(t.indices, self.indices):
            return False
        return bool(np.allclose(t.data, self.data, atol=tol, rtol=0.0))

    def prune(self, tol: float = 0.0) -> "CSRMatrix":
        """Drop entries with ``|a| <= tol``."""
        keep = np.abs(self.data) > tol
        counts = np.bincount(self._expanded_row_ids()[keep],
                             minlength=self.n_rows)
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(indptr, self.indices[keep], self.data[keep],
                         self.shape)

    def extract_rows(self, rows: Sequence[int]) -> "CSRMatrix":
        """Submatrix of the given rows (all columns), in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        counts = self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz)
        # Gather the row slices with one fancy-index per contiguous run.
        src = _slices_to_gather_index(self.indptr, rows, nnz)
        indices[:] = self.indices[src]
        data[:] = self.data[src]
        return CSRMatrix(indptr, indices, data, (rows.size, self.n_cols))

    def extract_block(self, rows: Sequence[int],
                      cols: Sequence[int]) -> "CSRMatrix":
        """Submatrix ``A[rows, cols]`` with renumbered column indices.

        ``cols`` must not contain duplicates.  Columns outside ``cols`` are
        dropped.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        sub = self.extract_rows(rows)
        colmap = np.full(self.n_cols, -1, dtype=np.int64)
        colmap[cols] = np.arange(cols.size)
        new_cols = colmap[sub.indices]
        keep = new_cols >= 0
        counts = np.bincount(sub._expanded_row_ids()[keep],
                             minlength=rows.size)
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        out = CSRMatrix(indptr, new_cols[keep], sub.data[keep],
                        (rows.size, cols.size))
        return out.sort_indices()

    def sort_indices(self) -> "CSRMatrix":
        """Return a copy with columns sorted within each row (in place if
        already sorted)."""
        rows = self._expanded_row_ids()
        keys = rows * (self.n_cols + 1) + self.indices
        if np.all(keys[1:] >= keys[:-1]) if keys.size else True:
            return self
        order = np.argsort(keys, kind="stable")
        return CSRMatrix(self.indptr.copy(), self.indices[order],
                         self.data[order], self.shape)

    def permute(self, perm: np.ndarray) -> "CSRMatrix":
        """Symmetric permutation ``A[perm, perm]`` (square matrices).

        ``perm[k]`` is the original index placed at position ``k``.
        """
        if self.n_rows != self.n_cols:
            raise ValueError("symmetric permutation needs a square matrix")
        perm = np.asarray(perm, dtype=np.int64)
        if perm.size != self.n_rows or np.unique(perm).size != perm.size:
            raise ValueError("perm must be a permutation of all rows")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        sub = self.extract_rows(perm)
        new_indices = inv[sub.indices]
        out = CSRMatrix(sub.indptr, new_indices, sub.data, self.shape)
        return out.sort_indices()

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array."""
        out = np.zeros(self.shape)
        out[self._expanded_row_ids(), self.indices] = self.data
        return out

    def to_scipy(self):
        """A cached ``scipy.sparse.csr_matrix`` built from this data.

        The compiled kernels' operand: built once per matrix (scipy
        copies ``data`` and downcasts indices to int32 at construction,
        so the handle genuinely caches — the seed's shared-``data``
        identity check never hit) and invalidated when ``data`` is
        replaced, like all derived structure.
        """
        import scipy.sparse as sp

        cache = self._derived_cache()
        S = cache.get("scipy")
        if S is None:
            S = sp.csr_matrix(
                (self.data, self.indices, self.indptr), shape=self.shape)
            cache["scipy"] = S
        return S

    # ------------------------------------------------------------------
    # triangular split
    # ------------------------------------------------------------------
    def lower_triangle(self, include_diagonal: bool = True) -> "CSRMatrix":
        """The (strictly) lower triangular part."""
        rows = self._expanded_row_ids()
        keep = (self.indices <= rows) if include_diagonal else (self.indices < rows)
        return self._filter_entries(keep)

    def _filter_entries(self, keep: np.ndarray) -> "CSRMatrix":
        counts = np.bincount(self._expanded_row_ids()[keep],
                             minlength=self.n_rows)
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(indptr, self.indices[keep], self.data[keep],
                         self.shape)


def _slices_to_gather_index(indptr: np.ndarray, rows: np.ndarray,
                            total: int) -> np.ndarray:
    """Flattened gather index for the concatenation of per-row CSR slices.

    Builds, without a python loop, the index array equivalent to
    ``np.concatenate([np.arange(indptr[r], indptr[r+1]) for r in rows])``.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    out = np.ones(total, dtype=np.int64)
    if total == 0:
        return out
    offsets = np.zeros(rows.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    nonempty = counts > 0
    out[offsets[nonempty]] = starts[nonempty]
    # after the first element of each run, the index increments by one;
    # fix up the run boundaries so cumsum produces consecutive runs.
    run_starts = offsets[nonempty][1:]
    prev_rows = np.flatnonzero(nonempty)[:-1]
    out[run_starts] -= starts[prev_rows] + counts[prev_rows] - 1
    return np.cumsum(out)


def _segment_pointers(ptr: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Zero-based pointer arrays of consecutive row segments, back to back.

    ``ptr`` is a CSR-style pointer over ``R`` rows and ``bounds`` (from 0
    to ``R``) cuts the rows into ``S`` segments.  Segment ``s``'s own
    pointer array ``ptr[bounds[s]:bounds[s+1] + 1] - ptr[bounds[s]]`` is
    ``out[bounds[s] + s:bounds[s+1] + s + 1]`` — every sub-matrix's
    ``indptr`` becomes a view, built without a python loop.
    """
    seg = np.repeat(np.arange(bounds.size - 1), np.diff(bounds) + 1)
    return ptr[np.arange(seg.size) - seg] - ptr[bounds[seg]]


def _mirror_slots(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Where each coordinate's mirror is stored: ``out[e]`` is the ``f``
    with ``(src[f], dst[f]) == (dst[e], src[e])``, or ``-1`` where the
    pattern holds no mirror.  Coordinates must be distinct and below
    ``n``; every temporary is one entry per coordinate."""
    keys = src * n + dst
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    want = dst * n + src
    pos = np.searchsorted(keys, want)
    np.minimum(pos, max(keys.size - 1, 0), out=pos)
    out = order[pos]
    out[keys[pos] != want] = -1
    return out
