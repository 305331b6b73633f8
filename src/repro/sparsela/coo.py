"""Coordinate-format sparse matrix (construction format).

COO is the assembly format: generators and the FEM assembler accumulate
``(row, col, value)`` triplets, possibly with duplicates, and convert to CSR
once at the end.  Duplicate entries are summed on conversion, matching the
usual finite-element assembly semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["COOMatrix"]


@dataclass
class COOMatrix:
    """Sparse matrix in coordinate (triplet) format.

    Parameters
    ----------
    rows, cols:
        Integer arrays of equal length giving entry coordinates.
    vals:
        Float array of entry values (duplicates allowed; they sum).
    shape:
        ``(m, n)`` matrix shape.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        self.cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        self.vals = np.ascontiguousarray(self.vals, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise ValueError("rows, cols, vals must have identical shapes")
        if self.rows.ndim != 1:
            raise ValueError("COO arrays must be one-dimensional")
        m, n = self.shape
        if m < 0 or n < 0:
            raise ValueError(f"invalid shape {self.shape}")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= m:
                raise ValueError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= n:
                raise ValueError("column index out of range")

    @property
    def nnz(self) -> int:
        """Number of stored triplets (before duplicate summation)."""
        return int(self.vals.size)

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "COOMatrix":
        """An all-zero matrix of the given shape."""
        z = np.zeros(0)
        return cls(z.astype(np.int64), z.astype(np.int64), z, shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "COOMatrix":
        """Build from a dense array, dropping entries with ``|a| <= tol``."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("dense array must be two-dimensional")
        rows, cols = np.nonzero(np.abs(dense) > tol)
        return cls(rows, cols, dense[rows, cols], dense.shape)

    def sum_duplicates(self) -> "COOMatrix":
        """Return an equivalent COO with duplicate coordinates summed."""
        if self.nnz == 0:
            return self
        m, n = self.shape
        keys = self.rows * n + self.cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = self.vals[order]
        boundary = np.empty(keys.size, dtype=bool)
        boundary[0] = True
        np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        summed = np.add.reduceat(vals, starts)
        unique_keys = keys[starts]
        return COOMatrix(unique_keys // n, unique_keys % n, summed, self.shape)

    def transpose(self) -> "COOMatrix":
        """Transpose (swap coordinates)."""
        return COOMatrix(self.cols.copy(), self.rows.copy(), self.vals.copy(),
                         (self.shape[1], self.shape[0]))

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array (duplicates summed)."""
        out = np.zeros(self.shape)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def to_csr(self):
        """Convert to :class:`~repro.sparsela.csr.CSRMatrix`.

        Duplicates are summed and explicit zeros retained (callers that want
        them dropped use :meth:`CSRMatrix.prune`).
        """
        from repro.sparsela.csr import CSRMatrix

        # sum_duplicates returns triplets sorted by row-major key, so no
        # further ordering pass is needed
        coo = self.sum_duplicates()
        m, _ = self.shape
        counts = np.bincount(coo.rows, minlength=m)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(indptr, coo.cols, coo.vals, self.shape)
